"""Host-drift record kept with each run's results.

Diagnostics only: no metric is derived from or rescaled by these values.
"""

from __future__ import annotations

import os
import platform
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_loop_s() -> float:
    """Wall time of a fixed amount of pure-Python work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def load_average():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "missing"


class Drift:
    """Reference loop and steal counter at the start and end of a run."""

    def __init__(self):
        self.ref_start = reference_loop_s()
        self.steal_start = steal_ticks()
        self.load_start = load_average()

    def finish(self, seed: int) -> dict:
        steal_end = steal_ticks()
        return {
            "reference_loop_s": [self.ref_start, reference_loop_s()],
            "steal_ticks_delta": None if steal_end is None or self.steal_start is None
            else steal_end - self.steal_start,
            "loadavg": [self.load_start, load_average()],
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "worker_blas_threads": 1,
            "seed": seed,
        }
