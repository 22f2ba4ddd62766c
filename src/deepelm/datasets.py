"""Image sets, galleries, synthetic data, and the on-disk gallery format.

A gallery is a list of labeled image sets; each set is a (d, s_m) feature
matrix whose columns were extracted upstream (this package never decodes
images). On disk a gallery is a line-oriented manifest plus one binary
feature file per set.

Manifest format (tab separated, one entry per line):

    #delm-manifest v1 d=<d>
    <set_id>\t<label>\t<relative_path>

Manifests are UTF-8 whatever the locale. Paths are resolved relative to
the manifest's directory. A label of "-" marks an unlabeled probe set, so
no labeled set may carry it, nor a tab or a line break; save_gallery
rejects such labels before it writes anything. Feature files are
little-endian binary: magic "DLMF", u32 version, u32 d, u32 s, then d*s
float64 in column-major order, then a CRC32 of everything before it,
sealed and read as ``fileio`` describes.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elm import check_seed
from .errors import DataError
from .fileio import f64_view, open_sealed, seal, unseal, write_atomic
from .normalize import NormalizationStats, apply_stats, compute_stats

FEATURE_MAGIC = b"DLMF"
FEATURE_FORMAT_VERSION = 1
MANIFEST_HEADER_RE = re.compile(r"^#delm-manifest v1 d=(\d+)$")
UNLABELED = "-"

GAUSSIAN_BLOB = "blob"
SINUSOIDAL_MANIFOLD = "sinusoid"
MANIFOLDS = (GAUSSIAN_BLOB, SINUSOIDAL_MANIFOLD)

_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# the field separator and every line boundary str.splitlines() splits on
_LABEL_BREAK_RE = re.compile("[\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(eq=False)
class ImageSet:
    """One labeled collection of feature vectors, (d, s) column-major."""

    features: np.ndarray
    label: str | None
    set_id: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError(
                f"set '{self.set_id}': expected a (d, s>=1) matrix, got shape {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise DataError(f"set '{self.set_id}': non-finite feature entries")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


@dataclass(eq=False)
class Gallery:
    """A labeled collection of image sets with a uniform feature dimension."""

    sets: list[ImageSet]

    def __post_init__(self):
        if not self.sets:
            raise DataError("empty gallery: no image sets")
        seen = set()
        d = self.sets[0].feature_dim
        for s in self.sets:
            if s.label is None:
                raise DataError(f"gallery set '{s.set_id}' is unlabeled")
            if s.set_id in seen:
                raise DataError(f"duplicate set_id '{s.set_id}' in gallery")
            seen.add(s.set_id)
            if s.feature_dim != d:
                raise DataError(
                    f"set '{s.set_id}' has feature dimension {s.feature_dim}, expected {d}"
                )

    @property
    def feature_dim(self) -> int:
        return self.sets[0].feature_dim

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({s.label for s in self.sets}))

    @property
    def total_samples(self) -> int:
        return sum(s.n_samples for s in self.sets)


def canonical_sets(sets) -> list[ImageSet]:
    """Sets sorted by set_id, the column order used for concatenation."""
    return sorted(sets, key=lambda s: s.set_id)


def concat_features(sets) -> np.ndarray:
    """Stack set columns in canonical order into one (d, N) matrix."""
    return np.hstack([s.features for s in canonical_sets(sets)])


def normalize_gallery(gallery: Gallery) -> tuple[Gallery, NormalizationStats]:
    """Normalize every set with shared stats computed over the whole gallery."""
    stats = compute_stats(concat_features(gallery.sets))
    mapped = [
        ImageSet(apply_stats(s.features, stats), s.label, s.set_id)
        for s in gallery.sets
    ]
    return Gallery(mapped), stats


# -- feature files -----------------------------------------------------------


def save_feature_matrix(path: str | Path, X: np.ndarray) -> None:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (d, s) matrix, got shape {X.shape}")
    d, s = X.shape
    header = struct.pack("<4sIII", FEATURE_MAGIC, FEATURE_FORMAT_VERSION, d, s)
    # column-major data: the row-major bytes of the transpose
    write_atomic(path, seal([header, f64_view(X.T)]))


def load_feature_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file not found: {path}")
    with open_sealed(path) as r:
        magic, version, d, s = r.unpack("<4sIII", "feature header")
        if magic != FEATURE_MAGIC:
            raise DataError(f"{path}: not a feature file (bad magic {magic!r})")
        if version != FEATURE_FORMAT_VERSION:
            raise DataError(f"{path}: unsupported feature format version {version}")
        if d < 1 or s < 1:
            raise DataError(f"{path}: invalid dimensions d={d}, s={s}")
        X = r.f64_array((s, d), f"feature matrix of d={d}, s={s}").T
        unseal(r)
    return X


# -- manifests ---------------------------------------------------------------


def parse_manifest(path: str | Path) -> tuple[int, list[tuple[str, str, str]]]:
    """Read a manifest, returning (d, [(set_id, label, relpath), ...])."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest file")
    m = MANIFEST_HEADER_RE.match(lines[0].strip())
    if m is None:
        raise DataError(f"{path}: missing or malformed '#delm-manifest v1 d=' header")
    d = int(m.group(1))
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'set_id<TAB>label<TAB>path'")
        set_id, label, rel = parts
        if set_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate set_id '{set_id}'")
        seen.add(set_id)
        entries.append((set_id, label, rel))
    if not entries:
        raise DataError(f"{path}: empty gallery (manifest has no entries)")
    return d, entries


def load_image_sets(manifest_path: str | Path) -> list[ImageSet]:
    """Load all sets referenced by a manifest; '-' labels become None."""
    manifest_path = Path(manifest_path)
    d, entries = parse_manifest(manifest_path)
    base = manifest_path.parent
    sets = []
    for set_id, label, rel in entries:
        X = load_feature_matrix(base / rel)
        if X.shape[0] != d:
            raise DataError(
                f"{base / rel}: set '{set_id}' has dimension {X.shape[0]}, "
                f"manifest declares d={d}"
            )
        sets.append(ImageSet(X, None if label == UNLABELED else label, set_id))
    return sets


def load_gallery(manifest_path: str | Path) -> Gallery:
    """Load a fully labeled gallery from a manifest."""
    sets = load_image_sets(manifest_path)
    for s in sets:
        if s.label is None:
            raise DataError(f"gallery set '{s.set_id}' is unlabeled ('-')")
    return Gallery(sets)


def save_gallery(gallery_sets, out_dir: str | Path) -> Path:
    """Write feature files plus a manifest; returns the manifest path.

    Every set is checked before any file is written: its set_id must be
    filename-safe, its dimension d, and its label one the manifest reads
    back as written. Feature files are written first and the manifest
    last, so an interrupted save never leaves a loadable but incomplete
    gallery.
    """
    sets = canonical_sets(gallery_sets)
    if not sets:
        raise DataError("refusing to save an empty gallery")
    d = sets[0].feature_dim
    for s in sets:
        if not _ID_RE.match(s.set_id):
            raise DataError(f"set_id '{s.set_id}' is not filename-safe")
        if s.feature_dim != d:
            raise DataError(
                f"set '{s.set_id}' has dimension {s.feature_dim}, expected {d}"
            )
        if s.label == UNLABELED or _LABEL_BREAK_RE.search(s.label or ""):
            raise DataError(
                f"set '{s.set_id}': label {s.label!r} cannot be written to a manifest"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"#delm-manifest v1 d={d}"]
    for s in sets:
        fname = f"{s.set_id}.dlmf"
        save_feature_matrix(out_dir / fname, s.features)
        label = s.label if s.label is not None else UNLABELED
        lines.append(f"{s.set_id}\t{label}\t{fname}")
    manifest = out_dir / "manifest.txt"
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest


# -- synthetic galleries -----------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Configuration for the deterministic synthetic gallery generator."""

    classes: int
    sets_per_class: int
    samples_per_set: int
    feature_dim: int
    manifold: str = GAUSSIAN_BLOB
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("classes", "sets_per_class", "samples_per_set", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.manifold not in MANIFOLDS:
            raise ValueError(f"manifold must be one of {MANIFOLDS}, got {self.manifold!r}")
        if self.manifold == SINUSOIDAL_MANIFOLD and self.feature_dim < 2:
            raise ValueError(
                f"the sinusoidal manifold needs feature_dim >= 2, got {self.feature_dim}"
            )


# Curve half-extents for the sinusoidal manifold, in feature space units.
_CURVE_SPAN = 0.35
_CURVE_WOBBLE = 0.2


def synth_generate(params: SynthParams) -> Gallery:
    """Deterministically generate a labeled gallery of separable classes.

    Blob classes sit at well separated centers (pairwise distance at least
    eight noise sigmas) with isotropic Gaussian scatter. Sinusoid classes
    trace a one-dimensional sinusoidal curve through feature space around
    equally separated centers, a non-linear structure a mean or subspace
    summary cannot capture.
    """
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
                X = _scatter(rng, sigma, (d, params.samples_per_set))
                X += centers[j][:, None]
            else:
                (u, v), freq, phase = curves[j]
                t = rng.uniform(-1.0, 1.0, size=params.samples_per_set)
                X = (
                    centers[j][:, None]
                    + _CURVE_SPAN * np.outer(u, t)
                    + _CURVE_WOBBLE * np.outer(v, np.sin(2.0 * np.pi * freq * t + phase))
                    + _scatter(rng, sigma, (d, params.samples_per_set))
                )
            sets.append(ImageSet(X, label, f"{label}_set{k:02d}"))
    return Gallery(sets)


def _scatter(rng, sigma: float, shape) -> np.ndarray:
    """rng.normal(0.0, sigma, shape)'s draws, scaled in place.

    They differ from what rng.normal returns only where a draw is zero,
    whose sign rng.normal's added 0.0 clears; a sum with any term but
    -0.0 gives the same bits either way.
    """
    z = rng.standard_normal(shape)
    z *= sigma
    return z


def _separated_directions(rng, c: int, d: int, min_sep: float) -> np.ndarray:
    """c unit-sphere points with pairwise distance >= min_sep.

    Draws candidate direction bundles and keeps the best-spread one; if the
    unit sphere cannot host the requested separation, the whole
    configuration is scaled up so the minimum gap is exactly min_sep.
    """
    best, best_gap = None, -1.0
    for _ in range(64):
        cand = rng.normal(size=(c, d))
        norms = np.linalg.norm(cand, axis=1)
        if np.any(norms < 1e-12):
            continue
        cand /= norms[:, None]
        gap = _min_pairwise_distance(cand)
        if gap > best_gap:
            best, best_gap = cand, gap
        if best_gap >= min_sep:
            break
    if best is None or (c > 1 and best_gap <= 0.0):
        # Degenerate draw (tiny d): fall back to collinear equispaced points.
        best = np.zeros((c, d))
        best[:, 0] = np.arange(c) * max(min_sep, 1.0)
        return best
    if c > 1 and best_gap < min_sep:
        best = best * (min_sep / best_gap)
    return best


def _min_pairwise_distance(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return np.inf
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(points.shape[0], k=1)
    return float(dist[iu].min())


def _orthonormal_pair(rng, d: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(d, 2)))
    return Q.T
