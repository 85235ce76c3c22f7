"""The environment record stored with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

# thread-count variables BLAS and OpenMP runtimes read; recorded as found,
# the benchmark sets none of them
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # numpy older than 1.26
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _git_commit(root: str):
    # a checkout without its own .git is not a repository; never look above it
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str) -> dict:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(root),
    }
