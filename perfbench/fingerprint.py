"""Which machine and build a result came from.

BLAS threads are read, never pinned: the default thread count is part of
what the grid workload measures (two pool workers times two BLAS threads
oversubscribe a 2-CPU machine).
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS will use, asked of the library."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split(" ", 1)[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def fingerprint(root: Path, **run: object) -> Dict[str, object]:
    """Machine, library and run identity for one benchmark result."""
    import numpy as np

    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    threads = _openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "blas": _blas_library(),
        "blas_threads": threads,
        "blas_threads_env": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if os.environ.get(name) is not None},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        **run,
    }
