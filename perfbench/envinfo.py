"""Record of the machine and BLAS set-up a run measured under.

Everything here only reads: the benchmark sets no thread variable and calls
no BLAS setter, so the numbers show the program under its own settings.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "DQPLATE_WORKERS",
)

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def thread_env() -> dict:
    """Every thread variable that is set, with its value."""
    return {k: os.environ[k] for k in THREAD_VARS if k in os.environ}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cgroup_cpu_quota() -> str:
    """cgroup v2 ``cpu.max`` or the v1 quota/period pair, as found."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is not None and period is not None:
        return f"{quota} {period}"
    return "unavailable"


def _blas_config(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def loaded_openblas() -> dict:
    """Each OpenBLAS library mapped into this process, with the thread count
    its own getter reports (None when it exports none)."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = {}
    for path in paths:
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for name in _THREAD_GETTERS:
            if lib is not None and hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                break
        out[Path(path).name] = threads
    return out


def record() -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(affinity) if affinity is not None else None,
        "cgroup_cpu_max": cgroup_cpu_quota(),
        "numpy_blas": _blas_config(np),
        "scipy_blas": _blas_config(scipy),
        "openblas_loaded": loaded_openblas(),
        "thread_env": thread_env(),
    }
