"""The environment a result was measured in.

CPU time depends on BLAS threading by about 2x on this workload set, so
every result records the usable cores, the BLAS build and its thread
count, the Python and numpy versions and the git revision.  The stamp
only reads: it sets no thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from typing import Any, Dict, List, Optional

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_openblas() -> List[str]:
    """Paths of every OpenBLAS build mapped into this process (numpy and
    scipy each bundle one)."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "openblas" in name and ".so" in name and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _openblas_threads(path: str) -> Optional[int]:
    library = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        function = getattr(library, symbol, None)
        if function is not None:
            function.argtypes = []
            function.restype = ctypes.c_int
            return int(function())
    return None


def _blas() -> Dict[str, Any]:
    import numpy

    info: Dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except Exception:  # older numpy: no dict mode
        info["name"] = None
    info["env"] = {name: os.environ.get(name) for name in _THREAD_ENV}
    info["threads"] = {
        os.path.basename(path): _openblas_threads(path) for path in _loaded_openblas()
    }
    return info


def _git_rev(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...)."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this machine (steal)
    between two :func:`cpu_ticks` readings."""
    if len(before) < 8 or len(after) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return deltas[7] / total if total > 0 else None


def stamp(root: str, ticks_at_start: Optional[List[int]] = None) -> Dict[str, Any]:
    import numpy

    return {
        "steal_share": steal_share(ticks_at_start or [], cpu_ticks()),
        "cores": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(root),
    }
