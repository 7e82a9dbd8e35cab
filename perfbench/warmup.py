"""Start-up probe: import the package and make one warm-up call.

``python3 perfbench/warmup.py`` is what ``setup_s`` times as a fresh
process, from start to exit. ``run.py`` also calls ``warm_up`` in its own
process before timing anything, so lazy imports and first-call costs are
paid outside the measured passes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """One BLAS/OpenMP thread and one harness worker. Must run before numpy
    is imported, because BLAS reads the thread count when it loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread pins must be set before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["BENCH_WORKERS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def tiny_cloud():
    """A 64-point noisy circle, fixed for every run."""
    import numpy as np

    from screeb import PointCloud

    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, 2.0 * np.pi, 64)
    return PointCloud(np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0.0, 0.05, (64, 2)))


def warm_up() -> None:
    import screeb
    import screeb.harness  # noqa: F401  (imported by every ci pass)

    screeb.screeb_tower(tiny_cloud())


if __name__ == "__main__":
    pin_environment()
    warm_up()
