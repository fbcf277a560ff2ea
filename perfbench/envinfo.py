"""The run environment recorded with every result, and a busy-machine check.

Reads only this process's own state and the read-only system counters in
``/proc/stat`` and ``/proc/self/maps``; it changes no setting.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time

BUSY_SHARE = 0.25  # CPU-seconds per wall second used by other processes


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_jiffies() -> tuple:
    """(busy, steal) jiffies of the whole machine from /proc/stat, or (0, 0)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return user + nice + system + irq + softirq, steal


def snapshot() -> dict:
    busy, steal = _cpu_jiffies()
    t = os.times()
    return {"wall": time.monotonic(), "busy": busy, "steal": steal,
            "own_cpu": t.user + t.system, "loadavg": list(os.getloadavg())}


def contention(before: dict, after: dict) -> dict:
    """Load averages and the CPU share other processes took during the run."""
    hz = os.sysconf("SC_CLK_TCK")
    wall = max(after["wall"] - before["wall"], 1e-9)
    other = (after["busy"] - before["busy"]) / hz - (after["own_cpu"] - before["own_cpu"])
    share = max(other, 0.0) / wall
    return {"loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"],
            "other_cpu_share": round(share, 3),
            "steal_share": round((after["steal"] - before["steal"]) / hz / wall, 3),
            "busy": share > BUSY_SHARE}


def _openblas() -> list:
    """Thread count and config of every OpenBLAS library this process loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    info["config"] = config().decode("ascii", "replace")
        out.append(info)
    return out


def describe() -> dict:
    """Static facts about this machine and its numeric stack."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "nproc": nproc(),
        "blas": blas,
        "blas_runtime": _openblas(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
