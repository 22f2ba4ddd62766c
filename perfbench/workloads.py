"""The benchmark's workloads and the inputs each one builds from a seed.

Every workload is a synthetic blob gallery of 6 sets per class, split by
``harness.split_folds`` into 3 gallery and 3 probe sets per class. The
direct train/classify/bundle pass uses fold 0 of the workload's protocol,
with the same subsampling and noise seeds ``harness.run_kfold`` uses, so
the fold-0 accuracy of the eval pass must equal the direct pass's.
"""

from __future__ import annotations

from dataclasses import dataclass

from deepelm import classifier, datasets, harness
from deepelm.normalize import NormalizationStats

SETS_PER_CLASS = 6
GALLERY_SETS_PER_CLASS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    samples_per_set: int
    feature_dim: int
    widths: tuple[int, ...] = (20, 20)
    folds: int = 1
    noise_mode: str = harness.NOISE_CLEAN
    max_samples_per_set: int | None = None
    # share of each fold's probe sets that may be misclassified; clean
    # workloads allow none
    max_miss_share: float = 0.0

    def config(self) -> classifier.TrainConfig:
        return classifier.TrainConfig(
            hidden_layers=len(self.widths), layer_widths=self.widths
        )

    def protocol(self, seed: int) -> harness.ProtocolSpec:
        return harness.ProtocolSpec(
            folds=self.folds,
            gallery_sets_per_class=GALLERY_SETS_PER_CLASS,
            seed=seed,
            noise_mode=self.noise_mode,
            max_samples_per_set=self.max_samples_per_set,
        )

    def solve_pattern(self) -> str:
        """Solve codes of one model: 'p' for an equal-width layer, else 'r',
        then the 'r' of the decode layer."""
        codes, dim = [], self.feature_dim
        for width in self.widths:
            codes.append("p" if width == dim else "r")
            dim = width
        return "".join(codes) + "r"


WORKLOADS = {
    w.name: w
    for w in (
        # the per-class Python loop dominates classification, and the
        # 41-model bundle is record-bound
        Workload(
            name="narrow_many_class",
            classes=40,
            samples_per_set=20,
            feature_dim=50,
        ),
        # training is bound by mid-size ridge solves under the default BLAS threads
        Workload(
            name="mid_ridge",
            classes=10,
            samples_per_set=50,
            feature_dim=100,
            widths=(40, 40),
        ),
        # both hidden layers are 200x200 Procrustes SVDs; classification is
        # GEMM-bound and the bundle byte-bound
        Workload(
            name="wide_procrustes",
            classes=10,
            samples_per_set=100,
            feature_dim=200,
            widths=(200, 200),
        ),
        # the paper's 5-fold protocol with gallery and probe noise and a
        # 20-sample cap, run through harness.run_kfold
        Workload(
            name="kfold_noise",
            classes=20,
            samples_per_set=40,
            feature_dim=50,
            folds=5,
            noise_mode=harness.NOISE_BOTH,
            max_samples_per_set=20,
            # noise costs up to 12 of the 60 probe sets of any fold on seeds 0-99
            max_miss_share=0.3,
        ),
    )
}


@dataclass(eq=False)
class Inputs:
    """What one set-up produces: the raw gallery, the normalized fold-0
    gallery with its stats, and the raw fold-0 probe sets."""

    gallery: datasets.Gallery
    train_gallery: datasets.Gallery
    stats: NormalizationStats
    probes: list
    spec: harness.ProtocolSpec


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the gallery and split it exactly as fold 0 of run_kfold does."""
    gallery = datasets.synth_generate(
        datasets.SynthParams(
            classes=workload.classes,
            sets_per_class=SETS_PER_CLASS,
            samples_per_set=workload.samples_per_set,
            feature_dim=workload.feature_dim,
            seed=seed,
        )
    )
    spec = workload.protocol(seed)
    gal_sets, probes = harness.split_folds(gallery, spec)[0]
    gal, probes = harness.subsample_sets(
        datasets.Gallery(list(gal_sets)), probes, spec.max_samples_per_set, seed=[seed, 0, 1]
    )
    gal, probes = harness.inject_noise(gal, probes, spec.noise_mode, seed=[seed, 0, 2])
    train_gallery, stats = datasets.normalize_gallery(gal)
    return Inputs(gallery, train_gallery, stats, list(probes), spec)
