"""Environment record stored with every benchmark result."""

from __future__ import annotations

import os
import platform
import re
from pathlib import Path

import numpy
import scipy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_NAME = re.compile(r"(openblas|blas|lapack|mkl|blis|flexiblas)", re.IGNORECASE)


def mapped_blas_libraries() -> list[str]:
    """Shared libraries mapped into this process whose name marks them as
    BLAS/LAPACK. NumPy and SciPy wheels each bundle their own OpenBLAS, so
    two copies are expected. Empty where /proc/self/maps does not exist."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    found = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        name = os.path.basename(fields[5].strip())
        # skip the Python extension modules that merely wrap the library
        if _BLAS_NAME.search(name) and ".cpython-" not in name:
            found.add(fields[5].strip())
    return sorted(found)


def git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout at root, read from .git without running
    git; None when root is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_libraries": mapped_blas_libraries(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": nproc,
        "git_commit": git_commit(root),
    }
