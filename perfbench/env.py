"""Process set-up shared by the benchmark's entry points, and the environment record."""

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap every BLAS thread-count variable at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cap))
        except ValueError:
            wanted = cap
        os.environ[var] = str(min(max(wanted, 1), cap))


def import_package():
    """Import mvdtest from this checkout's src/, refusing any other copy.

    Raises ImportError when src/mvdtest is missing or another mvdtest was
    picked up.
    """
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mvdtest

    if Path(mvdtest.__file__).resolve().parent != SRC / "mvdtest":
        raise ImportError(f"mvdtest was imported from {mvdtest.__file__}, not from {SRC}")
    return mvdtest


def git_commit():
    """Commit of the checkout read from .git, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }
