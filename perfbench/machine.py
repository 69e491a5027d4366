"""The machine a run measured: cores, CPU, versions and BLAS threads as observed.

Nothing here changes a thread setting; OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are reported as found. Run `python3 perfbench/machine.py`
to print the record as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def describe() -> dict:
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a  # the first matmul starts the BLAS thread pool, if there is one
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "threads_after_matmul": _thread_count(),
        "platform": sys.platform,
    }


if __name__ == "__main__":
    print(json.dumps(describe(), indent=2))
