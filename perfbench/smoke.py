"""Smoke run of the whole benchmark at tiny sizes, in a few seconds.

    python3 perfbench/smoke.py

Runs every workload, shrunk but with the same layer kinds, protocol and
noise, in both the timed and the traced mode, and requires that every
check passes, that the workloads are the ones BENCHMARK.json lists, and
that each mode prints exactly the metrics it lists, with the same units. Then copies only BENCHMARK.json and this
directory into a temporary directory under perfbench/out/ and requires the
benchmark to fail there without printing a result, since the library
sources are missing. Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SMOKE_SECONDS = 0.2
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(w: workloads.Workload) -> workloads.Workload:
    """w at toy size: equal-width layers stay equal to the input dimension."""
    d = 24
    return dataclasses.replace(
        w,
        classes=min(w.classes, 4),
        samples_per_set=24,
        feature_dim=d,
        widths=tuple(d if width == w.feature_dim else 10 for width in w.widths),
        folds=min(w.folds, 2),
        max_samples_per_set=None if w.max_samples_per_set is None else 20,
    )


def expected_metrics(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def check_stripped_copy(failures: list) -> None:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="stripped-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            run.BENCH_DIR, f"{tmp}/{run.BENCH_DIR.name}", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "narrow_many_class",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"stripped copy exited {proc.returncode} with output {proc.stdout!r}")


def main() -> int:
    want = {0: expected_metrics("end_to_end"), 1: expected_metrics("per_layer")}
    failures = []
    listed = [w["name"] for w in SPEC["workloads"]]
    if listed != list(workloads.WORKLOADS):
        failures.append(f"workloads {list(workloads.WORKLOADS)} != BENCHMARK.json {listed}")
    for w in workloads.WORKLOADS.values():
        for trace in (0, 1):
            result, record, _ = run.run_workload(tiny(w), 0, SMOKE_SECONDS, bool(trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{w.name} trace={trace}"
            if not result["correct"]:
                failures.append(f"{label}: {record['problems']}, {result['failed']} failed")
            if got != want[trace]:
                failures.append(f"{label}: metrics {sorted(got)} != BENCHMARK.json {sorted(want[trace])}")
            print(f"{label}: {result['attempted']} operations, correct={result['correct']}")
    check_stripped_copy(failures)
    for failure in failures:
        print("SMOKE FAILED:", failure)
    print("smoke", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
