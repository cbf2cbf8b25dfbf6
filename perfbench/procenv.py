"""Process set-up shared by every benchmark process.

``configure`` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads.  One BLAS thread is used (at most ``nproc``): with
two threads on a two-core machine the first few SVDs of a fresh process take
95-300 ms each instead of about 1 ms, and the thread pool competes with other
processes, which makes every timing noisier.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


#: the CPUs this process may run on when it starts
CPUS = tuple(sorted(os.sched_getaffinity(0)))


def nproc() -> int:
    return len(CPUS)


def pin(i: int) -> None:
    """Run this process on the i-th of its CPUs, wrapping around.

    Timed rounds alternate between the CPUs, so that a slow phase of one
    CPU (another tenant's load on the host) slows only part of a run.
    """
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def unpin() -> None:
    """Let this process, and the processes it starts, run on every CPU."""
    os.sched_setaffinity(0, set(CPUS))


def configure() -> None:
    """Fix the BLAS thread count for this process and the ones it starts."""
    if "numpy" in sys.modules:
        raise RuntimeError("configure() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc()))


def import_sldkit():
    """Import sldkit from the checkout's ``src`` tree, never from elsewhere."""
    package = SRC / "sldkit" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: sldkit sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import sldkit
    import sldkit.cli  # noqa: F401  (not imported by the package itself)
    if Path(sldkit.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported sldkit from {sldkit.__file__}, "
                         f"expected {package}")
    return sldkit


def versions() -> dict:
    """numpy, BLAS and thread settings of this process."""
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "nproc": nproc(),
    }
