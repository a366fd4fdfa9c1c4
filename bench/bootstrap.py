"""Process set-up shared by the benchmark's entry points.

Import this module before anything imports numpy. `prepare()` pins the
BLAS thread pools to one thread (threadpoolctl is not a dependency, so
the environment variables are the only lever, and they only take
effect before numpy loads OpenBLAS), then puts this checkout's `src/`
first on `sys.path` so the benchmark always measures the source tree it
sits next to, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and expose the checkout's source tree.

    Exits with status 1 when the checkout holds no costap source tree,
    so the benchmark cannot silently report on nothing.
    """
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if not (SOURCE / "costap" / "__init__.py").is_file():
        sys.exit(f"error: no costap source tree at {SOURCE}; run from a full checkout")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def check_source(module) -> None:
    """Refuse to measure a costap imported from anywhere but `src/`."""
    origin = Path(module.__file__).resolve()
    if SOURCE not in origin.parents:
        sys.exit(f"error: costap was imported from {origin}, not from {SOURCE}")
