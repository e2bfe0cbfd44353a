"""Environment stamp printed with every run."""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
from time import perf_counter


def _git(root, *args):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def speed_probe_ms(repeats=3) -> float:
    """Median wall time of a fixed pure-Python loop of about 20 ms. Other
    tenants of a shared machine can slow it down for minutes, and every
    timing with it."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(1000.0 * (perf_counter() - start))
    return statistics.median(times)


def stamp(root) -> dict:
    """Code version and machine facts. A checkout without git history
    reports the sha and dirty flag as null."""
    import numpy

    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
    }
