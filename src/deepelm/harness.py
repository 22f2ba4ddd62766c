"""Evaluation protocols: k-fold runs, noise and set-size stress, timing.

Accuracy is the percentage of probe *sets* labeled correctly, aggregated
as mean and standard deviation over folds. Noise modes follow the usual
clean/gallery/probe/both scheme: every targeted set gains exactly one
sample drawn from each other class. The set-size stress caps every set at
a fixed number of samples, keeping them all when a set is already smaller.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .classifier import TrainConfig, check_class_count, classify_set, train_all
from .datasets import Gallery, ImageSet, canonical_sets, normalize_gallery
from .elm import check_seed
from .errors import ConfigError
from .normalize import NormalizationStats

NOISE_CLEAN = "nc"
NOISE_GALLERY = "ng"
NOISE_PROBE = "np"
NOISE_BOTH = "ngp"
NOISE_MODES = (NOISE_CLEAN, NOISE_GALLERY, NOISE_PROBE, NOISE_BOTH)


@dataclass(frozen=True)
class ProtocolSpec:
    """How to split, stress and repeat an evaluation run.

    gallery_sets_per_class of None takes half of each class's sets
    (at least one). max_samples_per_set of None applies no cap.
    """

    folds: int = 2
    gallery_sets_per_class: int | None = None
    seed: int = 0
    noise_mode: str = NOISE_CLEAN
    max_samples_per_set: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed, ConfigError))
        if self.folds < 1:
            raise ConfigError(f"folds must be >= 1, got {self.folds}")
        if self.gallery_sets_per_class is not None and self.gallery_sets_per_class < 1:
            raise ConfigError(
                f"gallery_sets_per_class must be >= 1, got {self.gallery_sets_per_class}"
            )
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(
                f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}"
            )
        if self.max_samples_per_set is not None and self.max_samples_per_set < 1:
            raise ConfigError(
                f"max_samples_per_set must be >= 1, got {self.max_samples_per_set}"
            )


@dataclass(eq=False)
class RunReport:
    """Accuracies, timings and a config echo sufficient to reproduce a run.

    train_seconds is the wall-clock total over all folds, timed with
    allocation tracing off; test_seconds_per_set is the mean wall clock of
    classifying one probe set. peak_memory_bytes is an allocation-accounting
    estimate of peak training memory, not an OS resident-set measurement,
    taken in an untimed pass of its own. measure_run reports it; k-fold runs
    do not measure it and leave it None.
    """

    fold_accuracies: tuple[float, ...]
    train_seconds: float
    test_seconds_per_set: float
    peak_memory_bytes: int | None
    config: TrainConfig
    protocol: ProtocolSpec | None
    data_summary: dict

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.fold_accuracies))


def split_folds(
    gallery: Gallery, spec: ProtocolSpec
) -> list[tuple[list[ImageSet], list[ImageSet]]]:
    """Per-fold (gallery_sets, probe_sets) partitions by seeded shuffle.

    Every class contributes gallery_sets_per_class sets to the training
    side and at least one probe set; classes too small for that are a
    protocol error rather than being silently sub-split.
    """
    by_class: dict[str, list[ImageSet]] = {}
    for s in canonical_sets(gallery.sets):
        by_class.setdefault(s.label, []).append(s)
    takes = {}
    for label, members in sorted(by_class.items()):
        take = spec.gallery_sets_per_class
        if take is None:
            take = max(1, len(members) // 2)
        if len(members) < take + 1:
            raise ConfigError(
                f"class '{label}' has {len(members)} sets; protocol needs at least "
                f"{take + 1} (gallery {take} plus a probe)"
            )
        takes[label] = take
    folds = []
    for fold in range(spec.folds):
        rng = np.random.default_rng([spec.seed, fold])
        gal, probes = [], []
        for label, members in sorted(by_class.items()):
            order = rng.permutation(len(members))
            take = takes[label]
            gal.extend(members[i] for i in order[:take])
            probes.extend(members[i] for i in order[take:])
        folds.append((gal, probes))
    return folds


def inject_noise(
    gallery: Gallery, probes: list[ImageSet], mode: str, seed
) -> tuple[Gallery, list[ImageSet]]:
    """Corrupt sets by appending one sample from each other class.

    Gallery sets are targeted under 'ng'/'ngp', probe sets under
    'np'/'ngp'; 'nc' returns the inputs untouched. Donor samples are drawn
    uniformly from all samples of the donor class pooled across gallery and
    probes (their clean, pre-corruption contents), each pool holding its
    class's sets in canonical order. The draws run over the targeted sets,
    gallery first, and within a set over the other classes in label order.
    """
    if mode not in NOISE_MODES:
        raise ConfigError(f"noise_mode must be one of {NOISE_MODES}, got {mode!r}")
    if mode == NOISE_CLEAN:
        return gallery, probes
    for p in probes:
        if p.label is None:
            raise ValueError(f"noise injection needs labeled probes, '{p.set_id}' is not")
    everything = list(gallery.sets) + list(probes)
    labels = sorted({s.label for s in everything})
    if len(labels) < 2:
        raise ValueError("noise injection needs at least 2 classes")
    # Every pool in one matrix: the sets grouped by label, each group in
    # canonical order, so pool k is a column range starting at starts[k].
    pooled = sorted(everything, key=lambda s: (s.label, s.set_id))
    donors = np.hstack([s.features for s in pooled])
    index = {label: k for k, label in enumerate(labels)}
    sizes = np.zeros(len(labels), dtype=np.int64)
    for s in pooled:
        sizes[index[s.label]] += s.n_samples
    starts = np.cumsum(sizes) - sizes

    hit_gallery = mode in (NOISE_GALLERY, NOISE_BOTH)
    hit_probes = mode in (NOISE_PROBE, NOISE_BOTH)
    targets = (list(gallery.sets) if hit_gallery else []) + (
        list(probes) if hit_probes else []
    )
    # Row t holds the classes other than target t's, in label order. An
    # array of bounds draws the same numbers as one scalar draw per bound,
    # taken in row-major order.
    own = np.array([index[s.label] for s in targets], dtype=np.int64)
    rank = np.arange(len(labels) - 1)
    others = rank + (rank >= own[:, None])
    picks = starts[others] + np.random.default_rng(seed).integers(sizes[others])
    extras = donors[:, picks]
    noisy = [
        ImageSet(np.hstack([s.features, extras[:, t]]), s.label, s.set_id)
        for t, s in enumerate(targets)
    ]
    n = len(gallery.sets) if hit_gallery else 0
    return (Gallery(noisy[:n]) if hit_gallery else gallery), (noisy[n:] if hit_probes else probes)


def subsample_sets(
    gallery: Gallery, probes: list[ImageSet], max_samples: int | None, seed
) -> tuple[Gallery, list[ImageSet]]:
    """Cap every set (gallery and probe alike) at max_samples columns.

    Samples are chosen uniformly without replacement with their original
    order preserved; sets at or under the cap keep all their samples.
    """
    if max_samples is None:
        return gallery, probes
    if max_samples < 1:
        raise ConfigError(f"max_samples_per_set must be >= 1, got {max_samples}")
    rng = np.random.default_rng(seed)

    def cap(s: ImageSet) -> ImageSet:
        n = s.n_samples
        if n <= max_samples:
            return s
        idx = np.sort(rng.choice(n, size=max_samples, replace=False))
        return ImageSet(s.features[:, idx], s.label, s.set_id)

    return Gallery([cap(s) for s in gallery.sets]), [cap(s) for s in probes]


def _training_peak(
    norm_gal: Gallery, config: TrainConfig, stats: NormalizationStats
) -> int:
    """Allocation-accounting peak of one untimed train_all, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        train_all(norm_gal, config, feature_stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return max(0, peak - baseline)


def _train_and_test(
    norm_gal: Gallery,
    stats: NormalizationStats,
    probes: list[ImageSet],
    config: TrainConfig,
):
    """Train on a normalized gallery, then classify every probe set.

    Returns (accuracy over the labeled probes, or 0.0 without any;
    training seconds; summed classification seconds).
    """
    t0 = time.perf_counter()
    models = train_all(norm_gal, config, feature_stats=stats)
    train_s = time.perf_counter() - t0
    test_s = 0.0
    correct = labeled = 0
    for probe in probes:
        t0 = time.perf_counter()
        pred = classify_set(probe, models)
        test_s += time.perf_counter() - t0
        if probe.label is not None:
            labeled += 1
            correct += pred.set_label == probe.label
    accuracy = 100.0 * correct / labeled if labeled else 0.0
    return accuracy, train_s, test_s


def _evaluate_fold(
    gal_sets: list[ImageSet],
    probe_sets: list[ImageSet],
    spec: ProtocolSpec,
    config: TrainConfig,
    fold: int,
):
    gal = Gallery(list(gal_sets))
    gal, probe_sets = subsample_sets(
        gal, probe_sets, spec.max_samples_per_set, seed=[spec.seed, fold, 1]
    )
    gal, probe_sets = inject_noise(
        gal, probe_sets, spec.noise_mode, seed=[spec.seed, fold, 2]
    )
    norm_gal, stats = normalize_gallery(gal)
    accuracy, train_s, test_s = _train_and_test(norm_gal, stats, probe_sets, config)
    max_set = max(s.n_samples for s in list(gal.sets) + list(probe_sets))
    return accuracy, train_s, test_s, len(probe_sets), max_set


def run_kfold(gallery: Gallery, spec: ProtocolSpec, config: TrainConfig) -> RunReport:
    """Repeat train/classify over seeded gallery-probe splits.

    A gallery of fewer than 2 classes raises DataError before any fold
    work. Training memory is not measured: each fold trains once, timed,
    with allocation tracing off. measure_run reports the peak.
    """
    check_class_count(gallery.classes)
    folds = split_folds(gallery, spec)
    accs, train_total, test_total, n_probes, max_sets = [], 0.0, 0.0, 0, []
    for fold, (gal_sets, probe_sets) in enumerate(folds):
        acc, train_s, test_s, n, max_set = _evaluate_fold(
            gal_sets, probe_sets, spec, config, fold
        )
        accs.append(acc)
        train_total += train_s
        test_total += test_s
        n_probes += n
        max_sets.append(max_set)
    c = len(gallery.classes)
    summary = {
        "classes": c,
        "sets": len(gallery.sets),
        "feature_dim": gallery.feature_dim,
        "total_samples": gallery.total_samples,
        "max_set_samples": max(max_sets),
        "noise_added_per_set": 0 if spec.noise_mode == NOISE_CLEAN else c - 1,
    }
    return RunReport(
        fold_accuracies=tuple(accs),
        train_seconds=train_total,
        test_seconds_per_set=test_total / max(1, n_probes),
        peak_memory_bytes=None,
        config=config,
        protocol=spec,
        data_summary=summary,
    )


def measure_run(
    gallery: Gallery, probes: list[ImageSet], config: TrainConfig
) -> RunReport:
    """Time one full train plus per-set classification pass.

    The gallery trains twice: first in an untimed pass under tracemalloc,
    which gives the allocation-accounting peak, then in the timed pass with
    tracing off, whose models classify the probes. Timings are wall clock.
    Accuracy is computed over whichever probes carry labels.
    """
    norm_gal, stats = normalize_gallery(gallery)
    peak = _training_peak(norm_gal, config, stats)
    accuracy, train_s, test_s = _train_and_test(norm_gal, stats, probes, config)
    summary = {
        "classes": len(gallery.classes),
        "sets": len(gallery.sets),
        "feature_dim": gallery.feature_dim,
        "total_samples": gallery.total_samples,
        "max_set_samples": max(s.n_samples for s in list(gallery.sets) + list(probes)),
        "noise_added_per_set": 0,
    }
    return RunReport(
        fold_accuracies=(accuracy,),
        train_seconds=train_s,
        test_seconds_per_set=test_s / max(1, len(probes)),
        peak_memory_bytes=peak,
        config=config,
        protocol=None,
        data_summary=summary,
    )


# -- report rendering --------------------------------------------------------


def report_key_values(report: RunReport) -> str:
    """Flat machine-readable key=value rendering of a report."""
    kv: list[tuple[str, object]] = [("format", "delm-report-v1")]
    cfg = report.config
    kv += [
        ("config_hidden_layers", cfg.hidden_layers),
        ("config_layer_widths", ",".join(str(w) for w in cfg.layer_widths)),
        ("config_layer_c", ",".join(repr(float(c)) for c in cfg.layer_C)),
        ("config_seed", cfg.seed),
    ]
    if report.protocol is not None:
        p = report.protocol
        kv += [
            ("protocol_folds", p.folds),
            ("protocol_gallery_sets_per_class", p.gallery_sets_per_class),
            ("protocol_seed", p.seed),
            ("protocol_noise_mode", p.noise_mode),
            ("protocol_max_samples_per_set", p.max_samples_per_set),
        ]
    for key, value in sorted(report.data_summary.items()):
        kv.append((f"data_{key}", value))
    kv += [
        ("fold_count", len(report.fold_accuracies)),
        ("accuracy_mean_pct", repr(report.mean_accuracy)),
        ("accuracy_std_pct", repr(report.std_accuracy)),
    ]
    kv += [
        (f"accuracy_fold_{i}_pct", repr(acc))
        for i, acc in enumerate(report.fold_accuracies)
    ]
    kv += [
        ("train_seconds", repr(report.train_seconds)),
        ("test_seconds_per_set", repr(report.test_seconds_per_set)),
        ("peak_memory_bytes", report.peak_memory_bytes),
    ]
    return "\n".join(f"{k}={'' if v is None else v}" for k, v in kv) + "\n"


def report_text(report: RunReport) -> str:
    """Human-readable structured rendering of a report."""
    cfg = report.config
    lines = ["run report", "=========="]
    lines.append(
        "config: hidden_layers={} widths={} C={} seed={}".format(
            cfg.hidden_layers,
            list(cfg.layer_widths),
            [float(c) for c in cfg.layer_C],
            cfg.seed,
        )
    )
    if report.protocol is not None:
        p = report.protocol
        lines.append(
            "protocol: folds={} gallery_sets_per_class={} noise_mode={} "
            "max_samples_per_set={} seed={}".format(
                p.folds,
                p.gallery_sets_per_class,
                p.noise_mode,
                p.max_samples_per_set,
                p.seed,
            )
        )
    d = report.data_summary
    lines.append(
        "data: classes={classes} sets={sets} feature_dim={feature_dim} "
        "total_samples={total_samples} max_set_samples={max_set_samples} "
        "noise_added_per_set={noise_added_per_set}".format(**d)
    )
    lines.append(
        "fold accuracies (%): "
        + ", ".join(f"{a:.2f}" for a in report.fold_accuracies)
    )
    lines.append(
        f"accuracy: mean={report.mean_accuracy:.2f}% std={report.std_accuracy:.2f}%"
    )
    lines.append(f"train time: {report.train_seconds:.2f} s total")
    lines.append(f"test time: {report.test_seconds_per_set:.6f} s per probe set")
    if report.peak_memory_bytes is None:
        lines.append("peak training memory: not measured (see `deepelm bench`)")
    else:
        lines.append(
            f"peak training memory estimate: {report.peak_memory_bytes} bytes"
        )
    return "\n".join(lines) + "\n"
