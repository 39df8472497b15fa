"""Where, when and on what a run measured, and how noisy the host was.

The record goes on the line before the result: git sha (``unknown`` in
a checkout that is not a repository) and a digest of the program
source, UTC time, CPU count and affinity, Python/numpy/scipy/BLAS
versions and BLAS thread settings, host steal over the run from
``/proc/stat``, and a fixed calibration timing taken before and after
the workload so a drifting host shows in the record.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict, Optional, Tuple

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:9]]  # user..steal; guest is in user
    return ticks[7], sum(ticks)


def steal_pct(before, after) -> Optional[float]:
    if before is None or after is None or after[1] == before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def calibrate() -> Dict[str, float]:
    """A fixed pure-Python loop and a fixed numpy matmul, in seconds."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    python_s = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((384, 384))
    start = time.perf_counter()
    for _ in range(20):
        a @ a
    return {"python_loop_s": python_s, "numpy_matmul_s": time.perf_counter() - start}


def source_digest(root: pathlib.Path) -> str:
    """sha1 over the program's source files, names and bytes."""
    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    try:
        from threadpoolctl import threadpool_info

        info["threads"] = [p.get("num_threads") for p in threadpool_info()]
    except ImportError:
        pass
    return info


def provenance(root: pathlib.Path, seed: int, work_dir: str) -> Dict[str, object]:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(root),
        "source_sha1": source_digest(root),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "work_dir": work_dir,
    }
