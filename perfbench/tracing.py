"""Span recorder for the traced benchmark run.

The recorder wraps deepelm functions from the outside, at the module
global each caller looks up. ``autoencoder`` does ``from .elm import
solve_ridge``, so the ridge solves a training run makes go through
``deepelm.autoencoder.solve_ridge``; patching ``deepelm.elm.solve_ridge``
would see none of them. Every span records its name, start, end and the
span that was open when it began. Self time is a span's duration minus
the durations of its direct children. Spans stay in memory and are
written out once, when the benchmark ends.

Solve spans also carry a computed floating-point operation count derived
from the argument shapes (see ``ridge_flop`` and ``procrustes_flop``);
Procrustes spans carry the solver's degeneracy flag.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict

RIDGE = "elm.solve_ridge"
PROCRUSTES = "elm.solve_orthogonal_procrustes"
TRAIN_SPANS = ("classifier.train_all", "harness.train_all")


def ridge_flop(H, T, C=None) -> float:
    """Computed flops of one ``solve_ridge(H, T, C)``.

    H is (N, n) and T is (N, q). With N >= n the primal form costs the
    Gram product 2Nn^2, the right-hand side 2Nnq, the Cholesky n^3/3 and
    the two triangular solves 2n^2q. Otherwise the dual form costs the
    Gram product 2N^2n, the Cholesky N^3/3, the solves 2N^2q and the
    back-multiplication 2nNq. Conventional dense counts; BLAS may exploit
    symmetry in the Gram product and do less.
    """
    N, n = H.shape
    q = T.shape[1]
    if N >= n:
        return 2.0 * N * n * n + 2.0 * N * n * q + n**3 / 3.0 + 2.0 * n * n * q
    return 2.0 * N * N * n + N**3 / 3.0 + 2.0 * N * N * q + 2.0 * n * N * q


def procrustes_flop(H, T) -> float:
    """Computed flops of one ``solve_orthogonal_procrustes(H, T)``.

    H and T are (N, n). M = H^T T costs 2Nn^2; the full SVD of the square
    M with both factors costs 21n^3 (Golub and Van Loan's R-SVD count at
    m = n); forming U V^T costs 2n^3.
    """
    N, n = H.shape
    return 2.0 * N * n * n + 21.0 * n**3 + 2.0 * n**3


# (module the caller resolves the name in, attribute, span name, flop count)
PATCHES = (
    ("deepelm.autoencoder", "solve_ridge", RIDGE, ridge_flop),
    ("deepelm.autoencoder", "solve_orthogonal_procrustes", PROCRUSTES, procrustes_flop),
    ("deepelm.autoencoder", "hidden_response", "elm.hidden_response", None),
    ("deepelm.autoencoder", "activate", "elm.activate", None),
    # hidden_response resolves activate in its own module
    ("deepelm.elm", "activate", "elm.activate", None),
    ("deepelm.autoencoder", "random_orthonormal_mapping", "elm.random_orthonormal_mapping", None),
    ("deepelm.autoencoder", "logit", "autoencoder.logit", None),
    ("deepelm.classifier", "train_delm", "autoencoder.train_delm", None),
    ("deepelm.classifier", "reconstruction_error", "autoencoder.reconstruction_error", None),
    ("deepelm.classifier", "apply_stats", "normalize.apply_stats", None),
    ("deepelm.datasets", "apply_stats", "normalize.apply_stats", None),
    ("deepelm.classifier", "train_global", "classifier.train_global", None),
    ("deepelm.classifier", "train_class_specific", "classifier.train_class_specific", None),
    # the benchmark's own calls go through these module attributes
    ("deepelm.classifier", "train_all", "classifier.train_all", None),
    ("deepelm.classifier", "classify_set", "classifier.classify_set", None),
    ("deepelm.persistence", "save_models", "persistence.save_models", None),
    ("deepelm.persistence", "load_models", "persistence.load_models", None),
    ("deepelm.persistence", "pack_model", "persistence.pack_model", None),
    ("deepelm.persistence", "unpack_model", "persistence.unpack_model", None),
    ("deepelm.persistence", "seal", "fileio.seal", None),
    ("deepelm.persistence", "unseal", "fileio.unseal", None),
    ("deepelm.persistence", "write_atomic", "fileio.write_atomic", None),
    ("deepelm.datasets", "synth_generate", "datasets.synth_generate", None),
    ("deepelm.datasets", "normalize_gallery", "datasets.normalize_gallery", None),
    ("deepelm.harness", "run_kfold", "harness.run_kfold", None),
    ("deepelm.harness", "inject_noise", "harness.inject_noise", None),
    ("deepelm.harness", "subsample_sets", "harness.subsample_sets", None),
    ("deepelm.harness", "normalize_gallery", "datasets.normalize_gallery", None),
    ("deepelm.harness", "train_all", "harness.train_all", None),
    ("deepelm.harness", "classify_set", "harness.classify_set", None),
)

# span fields
NAME, START, END, PARENT, FLOP, DEGENERATE = range(6)


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, span_name, flop in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, flop))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name, fn, flop):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0]
            if flop is not None:
                span[FLOP] = flop(*args, **kwargs)
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name == PROCRUSTES:
                span[DEGENERATE] = int(out.degenerate)
            return out

        return traced

    def mark(self) -> int:
        """Index of the next span; pass it to ``summary`` or ``solve_sequences``."""
        return len(self.spans)

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per-name totals over spans[start:end].

        Returns {name: {"calls", "s", "self_s", "flop", "degenerate"}},
        where "s" is inclusive time and "self_s" excludes direct children.
        """
        spans = self.spans[start:end]
        child_s = defaultdict(float)
        for span in spans:
            if span[PARENT] >= start:
                child_s[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(spans, start):
            agg = out.setdefault(
                span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "flop": 0.0, "degenerate": 0}
            )
            dur = span[END] - span[START]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_s[i]
            agg["flop"] += span[FLOP]
            agg["degenerate"] += span[DEGENERATE]
        return out

    def solve_sequences(self, start: int = 0) -> list[str]:
        """One string of 'r'/'p' solve codes per training run, in call order."""
        owner: dict[int, int] = {}
        runs: dict[int, list[str]] = {}
        for i in range(start, len(self.spans)):
            span = self.spans[i]
            parent = span[PARENT]
            if span[NAME] in TRAIN_SPANS:
                owner[i] = i
                runs[i] = []
            elif parent in owner:
                owner[i] = owner[parent]
                if span[NAME] in (RIDGE, PROCRUSTES):
                    runs[owner[i]].append("r" if span[NAME] == RIDGE else "p")
        return ["".join(codes) for codes in runs.values()]

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed.

        Columns: index, name, start and end in seconds from the first span,
        parent index (-1 for a root), computed flops, degenerate flag.
        """
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tflop\tdegenerate\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{s[NAME]}\t{s[START] - t0:.9f}\t{s[END] - t0:.9f}\t"
                    f"{s[PARENT]}\t{s[FLOP]:.0f}\t{s[DEGENERATE]}\n"
                )
