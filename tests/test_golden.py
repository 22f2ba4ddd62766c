"""Labels and k-fold accuracies of the benchmark workloads, against a fixture.

Runs ``tools/output_digests.py --seeds 2 --kfold-seeds 5`` and compares the
fields of its output that do not depend on the BLAS thread count: the
set-label and per-sample-label digests of each direct pass, and the
``kfold_noise`` accuracies. A change that moves a label fails here; it
must regenerate ``tests/data/golden_labels.txt`` and list the moved labels.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "golden_labels.txt"
THREAD_DEPENDENT = ("sample_errors=", "bundle=", "global_model=")


def label_lines(text: str) -> list[str]:
    """Each non-comment line with its thread-dependent fields dropped."""
    return [
        " ".join(f for f in line.split() if not f.startswith(THREAD_DEPENDENT))
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


def test_labels_and_accuracies_match_the_fixture():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"),
         "--seeds", "2", "--kfold-seeds", "5"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert label_lines(run.stdout) == label_lines(FIXTURE.read_text())
