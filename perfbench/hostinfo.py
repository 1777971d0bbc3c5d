"""What a result was measured on: code revision, host, libraries, speed.

The host-speed probe times a fixed pure-Python loop.  It never adjusts
a metric; it lets a reader tell a slow phase of a shared host from a
regression.  ``python3 perfbench/hostinfo.py`` prints the library part
as seen by a fresh interpreter (the BLAS thread count is a property of
the process that loads the library).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

_PROBE_LOOP = 200_000


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_LOOP):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def speed_probe(seconds: float = 2.0) -> dict:
    """Time the fixed loop for about *seconds*: median, min and max
    milliseconds per loop."""
    samples = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(samples) < 5:
        samples.append(_probe_once())
    samples.sort()
    return {
        "loop_ms_p50": round(samples[len(samples) // 2], 4),
        "loop_ms_min": round(samples[0], 4),
        "loop_ms_max": round(samples[-1], 4),
        "loops": len(samples),
    }


def source_revision(root: Path) -> dict:
    """The git revision when *root* is a work tree, and always a digest
    of the program's sources (a benchmark checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def library_info() -> dict:
    """Python, numpy and BLAS as loaded by this interpreter."""
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{config.get('name')} {config.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    for line in Path("/proc/self/maps").read_text().splitlines():
        if "blas" not in line.lower():
            continue
        library = ctypes.CDLL(line.split()[-1])
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def describe(root: Path, env: dict, seed: int) -> dict:
    """Everything recorded with a result (library facts come from a
    fresh interpreter under the program's environment)."""
    libraries = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return {
        **source_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **json.loads(libraries),
        "seed": seed,
        "probe": speed_probe(),
    }


if __name__ == "__main__":
    print(json.dumps(library_info()))
