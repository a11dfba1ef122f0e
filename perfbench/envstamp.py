"""The environment a run executed in, and a check that two runs match.

Every result record carries a stamp: core count, the BLAS library and
the thread count in effect, whether the allocator was pinned
(:func:`pin_allocator`), numpy and Python versions, the source
identity (git commit where the checkout is a repository, and always a
digest of the ``src`` tree) and the workload seed. Timings taken under
different stamps are not comparable; :func:`stamp_differences` names the
fields that differ so a comparison can flag them.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

#: Fields that describe the machine and libraries; a difference in any of
#: them makes two runs' timings incomparable.
ENVIRONMENT_FIELDS = [
    "cpu_count", "affinity_cpus", "machine", "blas", "blas_version",
    "blas_core", "blas_threads", "blas_env", "malloc_pinned", "numpy", "python",
]
#: Fields that identify what ran; these differ on purpose between the two
#: sides of a before/after comparison.
IDENTITY_FIELDS = ["git_commit", "source_digest", "workload", "seed", "seconds"]
#: glibc ``mallopt`` parameters, from ``malloc.h``.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
_ALLOCATOR = {"pinned": False}


def pin_allocator() -> bool:
    """Keep freed memory in the process heap (glibc only); True if done.

    By default glibc maps every large array afresh and unmaps it when it
    is freed, so each Monte-Carlo chunk faults in zeroed pages again. On
    a shared host that kernel work varies more from run to run than the
    program does. With no mmap and no trimming, the memory one chunk
    frees is reused by the next.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _ALLOCATOR["pinned"] = bool(mallopt(M_MMAP_MAX, 0)) and bool(
        mallopt(M_TRIM_THRESHOLD, 2**31 - 1))
    return _ALLOCATOR["pinned"]


def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, if that is the BLAS in use."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "lib*openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib: Optional[ctypes.CDLL], stems: List[str], restype: Any) -> Any:
    if lib is None:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for stem in stems:
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
                if fn is None:
                    continue
                fn.argtypes = []
                fn.restype = restype
                value = fn()
                return value.decode() if isinstance(value, bytes) else value
    return None


def blas_info() -> Dict[str, Any]:
    config = getattr(np, "__config__", None)
    blas = {}
    if config is not None and hasattr(config, "CONFIG"):
        blas = config.CONFIG.get("Build Dependencies", {}).get("blas", {})
    lib = _openblas()
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": _blas_call(lib, ["get_corename"], ctypes.c_char_p),
        "blas_threads": _blas_call(lib, ["get_num_threads"], ctypes.c_int),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamp(root: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(affinity(0)) if affinity else None,
        "machine": platform.machine(),
        **blas_info(),
        "malloc_pinned": _ALLOCATOR["pinned"],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def stamp_differences(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, List[str]]:
    """Fields that differ, split into environment and identity fields."""
    return {
        "environment": [f for f in ENVIRONMENT_FIELDS if a.get(f) != b.get(f)],
        "identity": [f for f in IDENTITY_FIELDS if a.get(f) != b.get(f)],
    }
