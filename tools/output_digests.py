"""SHA-256 digests of deepelm's outputs on the benchmark workloads.

    python3 tools/output_digests.py --seeds 10 --kfold-seeds 100

For each workload of ``perfbench/workloads.py`` and each seed 0..N-1, the
direct pass of the benchmark is run: train on the fold-0 gallery, then
classify every fold-0 probe set. One line gives the SHA-256 of its set
labels, per-sample labels and per-sample errors, of the saved bundle and
of the global model saved as a single-model file. ``--kfold-seeds M`` adds
the ``kfold_noise`` ``run_kfold`` mean accuracy for seeds 0..M-1.

Two checkouts give the same output exactly when their results are bit for
bit the same. BLAS results depend on the thread count, so the first line
records the NumPy version, its BLAS library and the thread variables:
compare only output whose first lines are equal. Files are written to a
temporary directory only, which is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from deepelm import classifier, harness, persistence  # noqa: E402

import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def text_digest(rows) -> str:
    """Digest of rows of strings, one row per line, tab-separated."""
    return sha("\n".join("\t".join(row) for row in rows).encode())


def environment_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name)}" for name in THREAD_VARS)
    return f"# numpy={np.__version__} blas={blas['name']}-{blas['version']} {threads}"


def direct_pass(w, seed: int, tmp: Path) -> str:
    inputs = workloads.make_inputs(w, seed)
    models = classifier.train_all(inputs.train_gallery, w.config(), feature_stats=inputs.stats)
    preds = [classifier.classify_set(probe, models) for probe in inputs.probes]
    errors = b"".join(p.per_sample_errors.astype("<f8").tobytes(order="C") for p in preds)
    bundle, model = tmp / "bundle.dlmc", tmp / "global.dlmm"
    persistence.save_models(bundle, models)
    persistence.save_model(model, models.global_model)
    fields = {
        "set_labels": text_digest([p.set_label] for p in preds),
        "sample_labels": text_digest(p.per_sample_labels for p in preds),
        "sample_errors": sha(errors),
        "bundle": sha(bundle.read_bytes()),
        "global_model": sha(model.read_bytes()),
    }
    return f"{w.name} seed={seed} " + " ".join(f"{k}={v}" for k, v in fields.items())


def kfold_accuracy(seed: int) -> str:
    w = workloads.WORKLOADS["kfold_noise"]
    inputs = workloads.make_inputs(w, seed)
    report = harness.run_kfold(inputs.gallery, inputs.spec, w.config())
    return f"kfold_noise seed={seed} accuracy_pct={report.mean_accuracy!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="direct-pass seeds 0..N-1")
    parser.add_argument(
        "--kfold-seeds", type=int, default=0, help="kfold_noise run_kfold seeds 0..M-1"
    )
    args = parser.parse_args(argv)
    print(environment_line(), flush=True)
    with tempfile.TemporaryDirectory(prefix="deepelm-digests-") as tmp:
        for w in workloads.WORKLOADS.values():
            for seed in range(args.seeds):
                print(direct_pass(w, seed, Path(tmp)), flush=True)
    for seed in range(args.kfold_seeds):
        print(kfold_accuracy(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
