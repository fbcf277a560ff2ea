"""Intra-op threads for the forward kernels of inference.

OpenBLAS runs its own worker threads, and they spin for a while after every
threaded GEMM, so numpy kernels threaded beside them gain nothing. The
:func:`blas_budget` scope therefore takes over BLAS's thread budget: it reads
how many threads the OpenBLAS that numpy loaded may use, caps that at the
usable cores, pins BLAS to one thread and lets :func:`run` cut a kernel into
that many contiguous pieces, the calling thread taking the first and a
persistent pool the rest; :func:`elementwise` cuts GELU's. On exit, also
when the body raises, the old BLAS count is restored. The finiteness scan
runs in one piece: it is memory bound and paid on two threads only from ~4M
elements, over three times a default 256x256 prediction's largest output.

Kernels cut only along axes they do not reduce over, and every piece does the
same arithmetic on its elements as the whole array would, so results are
bitwise-identical for any piece count. Outside a scope, when no OpenBLAS is
found or when it is allowed one thread, every kernel runs as one piece on the
calling thread.

Besides single kernels, one runner of the tape-free blocks hands :func:`run`
whole units of work, one unit a piece at least: a spectral mixer's blocks of
pixel columns, a window transformer's chunks of windows and a deformable
conv's blocks of output pixels, each a chain of kernels. A window
transformer reads :func:`ways` to cut its windows into at least as many
chunks as there are threads to run them.

Pieces run plain numpy and the package's private kernels only: they never
record on the tape or call a public name of the package, so code that wraps
those names sees every call on the calling thread. A :func:`run` or
:func:`elementwise` called inside a piece runs as one piece on that piece's
thread: with every worker busy, waiting for a nested piece would deadlock
the pool.

The scope state is process-wide because the BLAS thread count is: nested and
concurrent scopes share one pin, which the last scope to close releases.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Elements per piece below which handing a piece to another thread costs
# more than it saves (about 0.1-0.4 ms a hand-off, measured on a 2-core
# machine) for a costly elementwise kernel such as erf.
MIN_WORK = 1 << 16

_lock = threading.Lock()
_depth = 0          # open scopes in this process
_saved = 0          # BLAS thread count to restore when the last scope closes; 0: not pinned
_ways = 1           # pieces per kernel
_pool: ThreadPoolExecutor | None = None
_local = threading.local()  # .inside: this thread is running a piece


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    paths.sort(key=lambda p: "numpy" not in p)  # numpy's own copy before scipy's
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None


def _start_pool() -> None:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=max(_cores() - 1, 1),
                                   thread_name_prefix="demosaick-intra-op")


def _enter() -> None:
    global _depth, _saved, _ways
    with _lock:
        _depth += 1
        blas = _openblas() if _depth == 1 else None
        if blas is None:
            return
        get, put = blas
        threads = get()
        ways = min(threads, _cores())
        if ways > 1:
            _start_pool()
            put(1)
            _saved, _ways = threads, ways


def _exit() -> None:
    global _depth, _saved, _ways
    with _lock:
        _depth -= 1
        if _depth == 0 and _saved:
            _openblas()[1](_saved)
            _saved, _ways = 0, 1


def _after_fork_in_child() -> None:
    """A forked child inherits no pool threads and no open scope."""
    global _lock, _pool, _depth, _saved, _ways
    if _saved:
        _openblas()[1](_saved)
    _lock, _pool, _depth, _saved, _ways = threading.Lock(), None, 0, 0, 1


os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def blas_budget():
    """Run the body with BLAS on one thread and kernels split over BLAS's budget."""
    _enter()
    try:
        yield
    finally:
        _exit()


@contextlib.contextmanager
def fixed_ways(ways: int):
    """Split kernels called directly into ``ways`` pieces, leaving BLAS alone.

    A test hook. Do not open a :func:`blas_budget` scope inside it: the scope
    sets the count itself and resets it to 1 on exit.
    """
    global _ways
    with _lock:
        previous, _ways = _ways, ways
        if ways > 1:
            _start_pool()
    try:
        yield
    finally:
        with _lock:
            _ways = previous


def ways() -> int:
    """Pieces :func:`run` may cut work into here: the pool width, or one
    outside a scope and inside a piece."""
    return 1 if getattr(_local, "inside", False) else _ways


def _piece(fn, lo: int, hi: int):
    _local.inside = True
    try:
        return fn(lo, hi)
    finally:
        _local.inside = False


def run(fn, n: int, per_item: int = 1, grain: int = MIN_WORK, least: int = 2) -> list:
    """``fn(lo, hi)`` over contiguous pieces of ``range(n)``; results in order.

    ``per_item`` is the number of elements one index stands for. Each piece
    gets at least ``grain`` elements and ``least`` indices. The default of
    two keeps a reduction inside a piece from seeing a lone index along the
    cut axis; whole units of work that reduce nothing across units pass 1.
    When a piece raises, the first such piece's exception reaches the caller.
    """
    pieces = min(ways(), n * per_item // grain, n // least)
    if pieces <= 1:
        return [fn(0, n)]
    bounds = [n * k // pieces for k in range(pieces + 1)]
    futures = [_pool.submit(_piece, fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = _piece(fn, bounds[0], bounds[1])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def elementwise(fn, *arrays: np.ndarray) -> list:
    """``fn`` over matching pieces of same-shape arrays; results in order.

    C-contiguous arrays are cut as flat vectors, others along their longest
    axis. ``fn`` must treat every element independently of the others.
    """
    if min(ways(), arrays[0].size // MIN_WORK) <= 1:
        return [fn(*arrays)]  # one piece, without building views
    if all(a.flags.c_contiguous for a in arrays):
        views = [a.reshape(-1) for a in arrays]
    else:
        axis = int(np.argmax(arrays[0].shape))
        views = [np.moveaxis(a, axis, 0) for a in arrays]
    n = views[0].shape[0]
    return run(lambda lo, hi: fn(*(v[lo:hi] for v in views)), n,
               views[0].size // max(n, 1))
