"""Run record: the machine, toolchain and source a set of results came from.

Standard library only, plus the numpy/scipy already imported by the run.
"""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module) -> dict:
    deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(package_dir: Path) -> str:
    """sha256 over the package's .py files, to identify a checkout that is
    not a git repository."""
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(root: Path, package_dir: Path, *, seed: int, threads: int,
               thread_vars: tuple[str, ...]) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(package_dir),
        "seed": seed,
    }
