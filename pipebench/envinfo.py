"""BLAS thread pinning and the environment record attached to every result.

``THREAD_VARS`` must be set before numpy is first imported; ``run.py``
does that. After import, threads are pinned again through threadpoolctl
when it is installed, or else through OpenBLAS's own entry points found
in the loaded library, and the count BLAS reports is checked.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

try:
    import threadpoolctl
except ImportError:
    threadpoolctl = None


def _openblas_libs() -> list[str]:
    """Shared objects named *openblas* mapped into this process."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line and "/" in line}
    return sorted(p for p in paths if ".so" in p)


def _openblas_call(name_suffix: str, restype, *args):
    """Call the first exported OpenBLAS entry point ending in ``name_suffix``."""
    for path in _openblas_libs():
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in (name_suffix + "64_", name_suffix):
                fn = getattr(lib, prefix + suffix, None)
                if fn is None:
                    continue
                fn.restype = restype
                fn.argtypes = [ctypes.c_int] * len(args)
                return path, fn(*args)
    return None, None


class BlasPin:
    """Holds BLAS at one thread for the life of the run."""

    def __init__(self):
        self._limits = None
        if threadpoolctl is not None:
            self._limits = threadpoolctl.threadpool_limits(limits=1)
        else:
            _openblas_call("set_num_threads", None, 1)

    def pools(self) -> list[dict]:
        """One entry per BLAS/OpenMP pool: library, version, threads."""
        if threadpoolctl is not None:
            return [
                {
                    "api": info.get("internal_api"),
                    "version": info.get("version"),
                    "num_threads": info.get("num_threads"),
                    "source": "threadpoolctl",
                }
                for info in threadpoolctl.threadpool_info()
            ]
        path, threads = _openblas_call("get_num_threads", ctypes.c_int)
        if path is None:
            return []
        _, config = _openblas_call("get_config", ctypes.c_char_p)
        return [
            {
                "api": "openblas",
                "version": config.decode() if config else None,
                "num_threads": threads,
                "source": "ctypes",
            }
        ]

    def check_single(self) -> list[dict]:
        pools = self.pools()
        busy = [p for p in pools if (p["num_threads"] or 0) > 1]
        if busy:
            raise RuntimeError(f"refusing to time: BLAS reports more than one thread: {busy}")
        return pools


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def capture(pin: BlasPin) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threadpools": pin.pools(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
