"""The host and settings stamp printed with every result."""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import os
import pathlib
import platform

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS library and its thread count, as numpy was built and runs."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
    }


def _git_commit(root: pathlib.Path) -> str:
    """The checkout's commit, read from ``.git`` without leaving it."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[len("ref: "):]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def stamp(root: pathlib.Path, workload: str, seed: int, config) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "cluster_config": dataclasses.asdict(config),
    }
